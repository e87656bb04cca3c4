import random

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from surfaut import Signature, Word, core

SMALL_SIGS = [
    Signature(0, 2),
    Signature(0, 3),
    Signature(1, 0),
    Signature(1, 1),
    Signature(1, 2),
    Signature(2, 0),
    Signature(2, 1),
]

SEED = 20260809

# Every run replays the same examples, so tier-1 times compare like with like.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@st.composite
def words(draw, sig=None, max_len=12):
    s = sig if sig is not None else draw(st.sampled_from(SMALL_SIGS))
    letters = st.sampled_from([c for c in range(-s.rank, s.rank + 1) if c != 0])
    codes = draw(st.lists(letters, max_size=max_len))
    return Word(s, tuple(codes))


@st.composite
def word_pairs(draw, max_len=10):
    s = draw(st.sampled_from(SMALL_SIGS))
    return draw(words(sig=s, max_len=max_len)), draw(words(sig=s, max_len=max_len))


@pytest.fixture
def rng():
    return random.Random(SEED)


def shared(c):
    """Whether the code c is the object that ``core._NEG`` holds for its value."""
    return c is core._NEG[-c]


def clear_memos():
    """Empty every memo of the package: each registers itself in
    ``core._MEMOS`` (``test_memos`` checks that the registry holds every
    ``lru_cache`` and module-level ``OrderedDict``, and nothing else)."""
    for memo in core._MEMOS:
        if isinstance(memo, core._Memo):
            memo.clear()
        else:
            memo.cache_clear()


@pytest.fixture(autouse=True)
def cold_memos():
    """Every test starts with empty package memos, so an entry left by an
    earlier test cannot hide a fault that this test patches in."""
    clear_memos()
