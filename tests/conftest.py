import random

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from surfaut import Endomorphism, Signature, Word, factorize, gens, groupoid, whitehead

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


def clear_memos():
    """Empty every memo of the package (``test_memos`` checks that no
    ``lru_cache`` or module-level ``OrderedDict`` is missing here)."""
    factorize._factored.clear()
    factorize._loop_entries.clear()
    factorize._adl_values.clear()
    factorize._adl_words.clear()
    factorize._reduced.clear()
    groupoid.canonical_edge.cache_clear()
    groupoid._nielsen_edge.cache_clear()
    groupoid._template_move.cache_clear()
    groupoid._rank_table.cache_clear()
    gens.generator.cache_clear()
    gens.humphries_rewrite.cache_clear()
    gens._humphries_run.cache_clear()
    gens.eta.cache_clear()
    Endomorphism.identity.cache_clear()
    whitehead._candidate_letters.cache_clear()


@pytest.fixture(autouse=True)
def cold_memos():
    """Every test starts with empty package memos, so an entry left by an
    earlier test cannot hide a fault that this test patches in."""
    clear_memos()
