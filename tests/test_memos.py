"""The ``cold_memos`` fixture of ``conftest`` empties every memo of the
package, so that no test sees an entry left by an earlier one.  The memos
are found, not listed: every ``lru_cache`` and every module-level
``OrderedDict`` of a ``surfaut`` module; each must be in the registry
``core._MEMOS`` that the fixture empties."""

import importlib
import pkgutil
from collections import OrderedDict

import surfaut
from surfaut import core

from conftest import clear_memos


def package_caches():
    """Every ``lru_cache``-wrapped function defined in a ``surfaut`` module,
    at module level or in a class body (``staticmethod`` included), by
    qualified name."""
    found = {}
    for info in pkgutil.iter_modules(surfaut.__path__):
        mod = importlib.import_module(f"surfaut.{info.name}")
        for obj in list(vars(mod).values()):
            members = [obj]
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                members += list(vars(obj).values())
            for fn in members:
                if isinstance(fn, (staticmethod, classmethod)):
                    fn = fn.__func__
                if hasattr(fn, "cache_info") and fn.__module__ == mod.__name__:
                    found[f"{fn.__module__}.{fn.__qualname__}"] = fn
    return found


def package_dict_memos():
    """Every module-level ``OrderedDict`` of a ``surfaut`` module (the bounded
    LRU memos ``core._Memo``), by qualified name."""
    found = {}
    for info in pkgutil.iter_modules(surfaut.__path__):
        mod = importlib.import_module(f"surfaut.{info.name}")
        for name, obj in vars(mod).items():
            if isinstance(obj, OrderedDict):
                found[f"{mod.__name__}.{name}"] = obj
    return found


def test_finds_the_known_caches():
    names = set(package_caches())
    assert {
        "surfaut.endo.Endomorphism.identity",
        "surfaut.endo.swap_letters",
        "surfaut.gens._parse_token",
        "surfaut.gens._token_name",
        "surfaut.gens.generator",
        "surfaut.groupoid._nielsen_edge",
        "surfaut.groupoid._rank_table",
        "surfaut.groupoid._step",
        "surfaut.groupoid._template_move",
        "surfaut.groupoid.canonical_edge",
        "surfaut.whitehead._candidate_letters",
        "surfaut.whitehead._is_zieschang",
    } <= names


def test_finds_the_known_dict_memos():
    assert {
        "surfaut.core._code_tables",
        "surfaut.core._name_tables",
        "surfaut.factorize._adl_words",
        "surfaut.factorize._adlh_words",
        "surfaut.factorize._brackets",
        "surfaut.factorize._factored",
        "surfaut.factorize._parts",
        "surfaut.factorize._reduced",
        "surfaut.factorize._tags",
    } <= set(package_dict_memos())


def test_registry_is_every_found_memo():
    # by identity: nothing found is missing from it, and it holds nothing else
    found = list(package_caches().values()) + list(package_dict_memos().values())
    assert len({id(m) for m in found}) == len(found)
    assert {id(m) for m in core._MEMOS} == {id(m) for m in found}
    assert len(core._MEMOS) == len(found)


def test_fixture_clears_every_lru_cache(monkeypatch):
    caches = package_caches()
    cleared = []
    for name, fn in caches.items():
        monkeypatch.setattr(fn, "cache_clear", lambda name=name: cleared.append(name))
    clear_memos()
    assert sorted(cleared) == sorted(caches)


def test_every_test_starts_with_empty_caches():
    for name, fn in package_caches().items():
        assert fn.cache_info().currsize == 0, name


def test_fixture_clears_every_dict_memo():
    memos = package_dict_memos()
    try:
        for memo in memos.values():
            memo["stale"] = None
        clear_memos()
        assert [name for name, memo in memos.items() if memo] == []
    finally:
        for memo in memos.values():
            memo.pop("stale", None)


def test_every_test_starts_with_empty_dict_memos():
    for name, memo in package_dict_memos().items():
        assert not memo, name
